"""Cycles, incidence vectors and the GF(2) cycle space of a graph.

The paper identifies a cycle ``C`` with its incidence vector ``b(C)`` over
the edges of the host graph; cycle addition is the symmetric difference of
edge sets.  We realise incidence vectors as bitmask integers through an
:class:`EdgeIndex` that assigns one bit per edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

    def mask_of_edge(self, u: int, v: int) -> int:
        return 1 << self._bit_of[canonical_edge(u, v)]

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

    def edges_of_mask(self, mask: int) -> List[Edge]:
        """Edges whose bits are set in ``mask``."""
        out: List[Edge] = []
        while mask:
            low = mask & -mask
            out.append(self._edge_of[low.bit_length() - 1])
            mask ^= low
        return out

    def edge_at(self, bit: int) -> Edge:
        return self._edge_of[bit]

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


def cycle_sum(masks: Iterable[int]) -> int:
    """GF(2) sum (symmetric difference) of incidence masks."""
    total = 0
    for mask in masks:
        total ^= mask
    return total


def mask_vertex_degrees(mask: int, index: EdgeIndex) -> Dict[int, int]:
    """Degrees of vertices in the edge set selected by ``mask``."""
    degrees: Dict[int, int] = {}
    for u, v in index.edges_of_mask(mask):
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    return degrees


def is_cycle_mask(mask: int, index: EdgeIndex) -> bool:
    """Is ``mask`` the edge set of a single simple cycle?"""
    if mask == 0:
        return False
    degrees = mask_vertex_degrees(mask, index)
    if any(deg != 2 for deg in degrees.values()):
        return False
    # Connectivity of the selected edge subgraph with all degrees two means
    # exactly one simple cycle.
    adjacency: Dict[int, Set[int]] = {v: set() for v in degrees}
    for u, v in index.edges_of_mask(mask):
        adjacency[u].add(v)
        adjacency[v].add(u)
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        # Reachability only: the returned count is the same under any
        # visitation order.
        for nbr in adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return len(seen) == len(degrees)


def decompose_mask_into_cycles(mask: int, index: EdgeIndex) -> List[Cycle]:
    """Split an even-degree edge set into edge-disjoint simple cycles.

    Every element of the cycle space is a disjoint union of simple cycles;
    this extracts one such decomposition (useful for reporting partitions).
    """
    adjacency: Dict[int, List[int]] = {}
    for u, v in index.edges_of_mask(mask):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    if any(len(nbrs) % 2 for nbrs in adjacency.values()):
        raise ValueError("mask is not in the cycle space (odd vertex degree)")

    remaining: Dict[int, Set[int]] = {v: set(nbrs) for v, nbrs in adjacency.items()}
    cycles: List[Cycle] = []
    for start in sorted(adjacency):
        while remaining[start]:
            # Trace a closed walk, then peel simple cycles from it.
            walk = [start]
            current = start
            while True:
                nxt = min(remaining[current])
                remaining[current].remove(nxt)
                remaining[nxt].remove(current)
                walk.append(nxt)
                current = nxt
                if current == start:
                    break
            cycles.extend(_peel_simple_cycles(walk, index))
    return cycles


def _peel_simple_cycles(walk: Sequence[int], index: EdgeIndex) -> List[Cycle]:
    """Split a closed walk (walk[0] == walk[-1]) into simple cycles."""
    cycles: List[Cycle] = []
    stack: List[int] = []
    position: Dict[int, int] = {}
    for vertex in walk:
        if vertex in position:
            loop = stack[position[vertex]:]
            if len(loop) >= 3:
                cycles.append(Cycle.from_vertices(loop, index))
            for dropped in loop[1:]:
                position.pop(dropped, None)
            del stack[position[vertex] + 1:]
        else:
            position[vertex] = len(stack)
            stack.append(vertex)
    return cycles


def fundamental_cycle_basis(
    graph: NetworkGraph, index: Optional[EdgeIndex] = None
) -> Tuple[EdgeIndex, List[int]]:
    """Fundamental cycles of a BFS spanning forest, as incidence masks.

    Returns ``(edge_index, masks)``; the masks form a basis of the cycle
    space, one per non-tree edge (chord).
    """
    if index is None:
        index = EdgeIndex.from_graph(graph)
    parent: Dict[int, int] = {}
    order: Dict[int, int] = {}
    masks: List[int] = []
    for root in sorted(graph.vertices()):
        if root in parent:
            continue
        parent[root] = root
        order[root] = 0
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for w in sorted(graph.neighbors(u)):
                    if w not in parent:
                        parent[w] = u
                        order[w] = order[u] + 1
                        nxt.append(w)
            frontier = nxt
    tree_edges = {
        canonical_edge(v, p) for v, p in parent.items() if p != v
    }
    for u, v in sorted(graph.edges()):
        if canonical_edge(u, v) in tree_edges:
            continue
        mask = index.mask_of_edge(u, v)
        a, b = u, v
        while a != b:
            if order[a] >= order[b]:
                mask ^= index.mask_of_edge(a, parent[a])
                a = parent[a]
            else:
                mask ^= index.mask_of_edge(b, parent[b])
                b = parent[b]
        masks.append(mask)
    return index, masks


def cycle_space_dimension(graph: NetworkGraph) -> int:
    """``|E| - |V| + c``: the dimension of the cycle space."""
    return graph.num_edges() - len(graph) + len(graph.connected_components())
